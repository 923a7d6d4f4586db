import math
from dataclasses import replace

import numpy as np
import pytest

from ptwells import (
    AmbiguousOrbitError,
    BracketingError,
    Chirality,
    ClassificationMismatchError,
    CrossingDirection,
    DegenerateWindingError,
    DomainError,
    InsufficientCrossingsError,
    IntegratorConfig,
    MomentumBranch,
    OrbitKind,
    PhaseState,
    Side,
    SystemParams,
    Termination,
    Trajectory,
    WellIndex,
    anchor_episodes,
    classify_orbit,
    closed_orbit_boundary,
    detect_axis_crossings,
    initial_momentum,
    integrate,
    measure_tunneling,
    potential_gradient,
    self_intersections,
    separatrix_offset,
    spiral_chirality,
    spiral_windows,
    tunnel_well_pair,
    well_center,
)
from ptwells import analysis
from ptwells.analysis import BOUNDARY_WIDTH, PROBE_CONFIG
from ptwells.integrator import ReturnWatch
from ptwells.wells import lattice_y_array, well_x

P = SystemParams(0.1, 3)


def synthetic_trajectory(t, z, p=None, termination=Termination.TIME_LIMIT, params=P):
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=complex)
    if p is None:
        # momentum consistent with dz/dt = 2p on the sample grid
        dz = np.gradient(z, t)
        p = dz / 2.0
    return Trajectory(
        params=params,
        energy=0j,
        t=t,
        z=z,
        p=np.asarray(p, dtype=complex),
        drift=np.zeros_like(t),
        termination=termination,
    )


class TestDetectCrossings:
    def test_sine_crossing(self):
        t = np.linspace(0.0, 2 * math.pi, 4001)
        traj = synthetic_trajectory(t, np.sin(t) + 0j, p=np.cos(t) / 2 + 0j)
        events = detect_axis_crossings(traj)
        assert len(events) == 1
        ev = events[0]
        assert ev.t_cross == pytest.approx(math.pi, abs=1e-6)
        assert ev.direction is CrossingDirection.RIGHT_TO_LEFT

    def test_refinement_hits_exact_root(self):
        # Re z = s (t - 1) sampled coarsely: interpolant root at exactly 1,
        # also where the slope is so small that |Re z| stays below 1e-9
        # over a time span of 1e-3 around the root
        t = np.array([0.0, 0.7, 1.6, 2.0])
        for s in (1.0, 1e-6):
            traj = synthetic_trajectory(t, s * (t - 1.0) + 0j, p=np.full(4, 0.5 * s + 0j))
            (ev,) = detect_axis_crossings(traj)
            assert abs(ev.t_cross - 1.0) <= 4 * np.spacing(1.0), s
            assert ev.direction is CrossingDirection.LEFT_TO_RIGHT

    def test_closed_orbit_has_no_crossings(self, fig_closed):
        assert detect_axis_crossings(fig_closed) == []

    def test_tunneling_run_alternates(self, fig_tunneling):
        events = detect_axis_crossings(fig_tunneling)
        assert len(events) >= 3
        for a, b in zip(events, events[1:]):
            assert a.direction is not b.direction

    def test_empty_trajectory_rejected(self):
        traj = synthetic_trajectory(np.array([]), np.array([]), p=np.array([]))
        with pytest.raises(DomainError):
            detect_axis_crossings(traj)


def square_wave_trajectory(flips, amplitude=3.0, margin=1.0):
    """Re z flips sign at the given times; linear ramp of width 1 around each.

    The amplitude exceeds the dwell-commitment threshold so every flip
    counts as a real side change.
    """
    ts, xs = [flips[0] - margin], [-amplitude]
    sign = -1.0
    for tf in flips:
        ts.extend([tf - 0.5, tf + 0.5])
        xs.extend([sign * amplitude, -sign * amplitude])
        sign = -sign
    ts.append(flips[-1] + margin)
    xs.append(sign * amplitude)
    t = np.array(ts)
    z = np.array(xs, dtype=complex)
    p = np.gradient(z, t) / 2
    return synthetic_trajectory(t, z, p=p)


class TestMeasureTunneling:
    def test_synthetic_dwells(self):
        traj = square_wave_trajectory([0.0, 10.0, 30.0, 40.0, 60.0])
        stats = measure_tunneling(traj)
        # segments: 10 (right), 20 (left), 10 (right), 20 (left)
        assert stats.dwell_right_mean == pytest.approx(10.0, rel=1e-9)
        assert stats.dwell_left_mean == pytest.approx(20.0, rel=1e-9)
        assert stats.tunneling_time == pytest.approx(15.0, rel=1e-9)
        assert stats.n_cycles == 2

    def test_insufficient_crossings(self):
        traj = square_wave_trajectory([0.0, 10.0])
        with pytest.raises(InsufficientCrossingsError):
            measure_tunneling(traj)

    def test_sample_refinement_invariance(self, fig_tunneling):
        full = measure_tunneling(fig_tunneling).tunneling_time
        half = synthetic_trajectory(
            fig_tunneling.t[::2], fig_tunneling.z[::2], p=fig_tunneling.p[::2]
        )
        coarse = measure_tunneling(half).tunneling_time
        assert coarse == pytest.approx(full, rel=1e-3)


class TestClassification:
    def test_closed(self, fig_closed):
        oc = classify_orbit(fig_closed)
        assert oc.kind is OrbitKind.CLOSED
        assert oc.anchor == WellIndex(Side.LEFT, 0)
        assert 0 < oc.period < 5.0

    def test_open_escape(self):
        c = well_center(WellIndex(Side.LEFT, 0), P)
        z0 = complex(c.real, c.imag + 0.54)
        p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P)
        traj = integrate(z0, p0, IntegratorConfig(t_max=60.0, escape_radius=4.0), P)
        oc = classify_orbit(traj)
        assert oc.kind is OrbitKind.OPEN_ESCAPE
        assert oc.escape_side is Side.LEFT

    def test_tunneling(self, fig_tunneling):
        oc = classify_orbit(fig_tunneling)
        assert oc.kind is OrbitKind.TUNNELING
        assert oc.wells == (WellIndex(Side.LEFT, -10), WellIndex(Side.RIGHT, 10))

    def test_equilibrium_is_closed(self):
        c = well_center(WellIndex(Side.RIGHT, 0), P)
        traj = integrate(c, 0j, IntegratorConfig(t_max=5.0), P)
        oc = classify_orbit(traj)
        assert oc.kind is OrbitKind.CLOSED
        assert oc.period == 0.0

    def test_ambiguous_raises(self):
        # too short for recurrence, escape, or crossings
        c = well_center(WellIndex(Side.LEFT, 0), P)
        z0 = complex(c.real, c.imag + 0.4740)
        p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P)
        traj = integrate(z0, p0, IntegratorConfig(t_max=0.2), P)
        with pytest.raises(AmbiguousOrbitError):
            classify_orbit(traj)


class TestWellPair:
    def test_fig7_pair(self, fig_tunneling):
        left, right = tunnel_well_pair(fig_tunneling)
        assert left == WellIndex(Side.LEFT, -10)
        assert right == WellIndex(Side.RIGHT, 10)

    def test_rejects_non_tunneling(self, fig_closed):
        with pytest.raises(ClassificationMismatchError):
            tunnel_well_pair(fig_closed)

    def test_start_well_is_not_a_visit(self):
        # start at the center of left -2, then shuttle between right +19 and
        # left -1 along the imaginary axis, far from every other center
        wells = [WellIndex(Side.LEFT, -2)] + [WellIndex(Side.RIGHT, 19), WellIndex(Side.LEFT, -1)] * 2
        corners = []
        for well in wells:
            c = well_center(well, P)
            corners += [complex(0.0, c.imag), c, complex(0.0, c.imag)]
        corners = corners[1:]
        z = np.concatenate([np.linspace(a, b, 400, endpoint=False) for a, b in zip(corners, corners[1:])])
        traj = synthetic_trajectory(np.arange(len(z)) * 0.01, z)
        assert [w for w, _, _ in anchor_episodes(traj)] == wells
        assert tunnel_well_pair(traj) == (WellIndex(Side.LEFT, -1), WellIndex(Side.RIGHT, 19))

    def test_episodes_measure_to_well_center(self):
        # anchor_episodes uses the same correctly rounded lattice y as
        # well_center, so a sample at a center is at distance zero
        params = SystemParams(1.0, 5)
        wells = [WellIndex(side, n) for n in range(-50, 51) for side in (Side.RIGHT, Side.LEFT)]
        # a point on the imaginary axis, far from every center, between visits
        z = np.array([v for w in wells for v in (well_center(w, params), 0j)])
        traj = synthetic_trajectory(np.arange(len(z)) * 0.01, z, params=params)
        episodes = anchor_episodes(traj)
        assert [w for w, _, _ in episodes] == wells
        assert all(d == 0.0 for _, _, d in episodes)

    @pytest.mark.parametrize("fixture", ["fig_closed", "fig_tunneling"])
    def test_episodes_equal_the_per_sample_loop(self, fixture, request):
        traj = request.getfixturevalue(fixture)
        assert anchor_episodes(traj) == _anchor_episodes_loop(traj)
        # runs at both ends of the samples, and runs of one sample
        n = len(traj)
        for idx in ([0, 1, 2], [n - 3, n - 2, n - 1], [0, n // 2, n - 1]):
            z = traj.z.copy()
            z[idx] = [well_center(WellIndex(Side.LEFT, k), P) for k in range(len(idx))]
            cut = replace(traj, z=z)
            assert anchor_episodes(cut) == _anchor_episodes_loop(cut)

    def test_episode_sequence_alternates_sides(self, fig_tunneling):
        episodes = anchor_episodes(fig_tunneling)
        assert len(episodes) >= 4
        for (a, _, _), (b, _, _) in zip(episodes, episodes[1:]):
            assert a.side is not b.side
        # all complete visits spiral deep into their well's core
        for _, _, d in episodes[:-1]:
            assert d < 0.2


def _anchor_episodes_loop(traj):
    """anchor_episodes as a per-sample while loop over the runs, the reference."""
    x, y = traj.z.real, traj.z.imag
    xw = well_x(traj.params)
    n_r = np.round(y / math.pi - 0.25)
    n_l = np.round(y / math.pi + 0.25)
    d_r = np.hypot(x - xw, y - lattice_y_array(Side.RIGHT, n_r))
    d_l = np.hypot(x + xw, y - lattice_y_array(Side.LEFT, n_l))
    right_closer = d_r <= d_l
    d = np.where(right_closer, d_r, d_l)
    episodes = []
    inside = d < analysis.ANCHOR_RADIUS
    i = 0
    while i < len(d):
        if not inside[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(d) and inside[j + 1]:
            j += 1
        k = i + int(np.argmin(d[i : j + 1]))
        well = WellIndex(Side.RIGHT, int(n_r[k])) if right_closer[k] else WellIndex(Side.LEFT, int(n_l[k]))
        if episodes and episodes[-1][0] == well:
            if d[k] < episodes[-1][2]:
                episodes[-1] = (well, k, float(d[k]))
        else:
            episodes.append((well, k, float(d[k])))
        i = j + 1
    return episodes


def _probe_start(offset: float) -> tuple[complex, complex]:
    """Start `offset` above left well n=0 at E = 0.8, principal branch."""
    c = well_center(WellIndex(Side.LEFT, 0), P)
    z0 = complex(c.real, c.imag + offset)
    return z0, initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P)


class TestReturnStop:
    def test_probe_near_boundary_stops_at_first_return(self):
        # integrated on, this closed start picks up drift 2.45e-3 on later
        # loops and escapes at t = 4.39
        traj = integrate(*_probe_start(0.529736328125), PROBE_CONFIG, P)
        assert traj.termination is Termination.RETURNED
        assert traj.t[-1] < 0.6
        assert classify_orbit(traj).kind is OrbitKind.CLOSED

    def test_probe_past_boundary_stops_at_cell_exit(self):
        # this open start never returns; with a 2 pi span it ran to t_max
        # (t = 15, drift 0.016) and read as closed
        traj = integrate(*_probe_start(0.52979736328125), PROBE_CONFIG, P)
        assert traj.termination is Termination.ESCAPED
        assert traj.t[-1] < 0.5
        assert abs(traj.z[-1].imag - traj.z[0].imag) > 0.5 * math.pi

    @pytest.mark.parametrize("offset", [0.2, 0.4740, 0.52, 0.54, 0.6])
    def test_period_is_the_last_segment_return(self, offset):
        traj = integrate(*_probe_start(offset), replace(PROBE_CONFIG, t_max=30.0), P)
        if offset > 0.535:
            assert traj.termination is Termination.ESCAPED
            return
        assert traj.termination is Termination.RETURNED
        oc = classify_orbit(traj)
        assert oc.kind is OrbitKind.CLOSED
        # closest approach to the start of the last segment's cubic Hermite in
        # t, with the slopes (2p, -dV/dz) at both ends, in (z, p) as R^4
        ta, tb = traj.t[-2], traj.t[-1]
        h = tb - ta
        (a, ma), (b, mb) = [
            (
                np.array([traj.z[i] - traj.z[0], traj.p[i] - traj.p[0]]),
                h * np.array([2.0 * traj.p[i], -potential_gradient(complex(traj.z[i]), P)]),
            )
            for i in (-2, -1)
        ]
        s = np.linspace(0.0, 1.0, 200_001)[:, None]
        curve = (
            (2 * s**3 - 3 * s**2 + 1) * a + (s**3 - 2 * s**2 + s) * ma + (3 * s**2 - 2 * s**3) * b + (s**3 - s**2) * mb
        )
        dist = np.linalg.norm(curve, axis=1)
        i = int(np.argmin(dist))
        assert dist[i] <= ReturnWatch.TOL
        assert oc.period == pytest.approx(ta + s[i, 0] * h, rel=0, abs=1e-5 * h)

    @pytest.mark.parametrize(
        "n,offset",
        [(0, "closed probe"), (0, "open probe"), (-2, "closed probe")]
        + [(0, offset) for offset in (0.2, 0.4740, 0.52, 0.54, 0.6)],
    )
    def test_online_return_is_the_replayed_one(self, n, offset):
        # the boundary probes above left wells 0 and -2 (where the return falls on
        # the last sample of a block) and criterion 7(d)'s starts: the loop feeds
        # the watch the samples it keeps, a block of steps at a time, and ends
        # them at the return; the same start run on without the stop keeps the
        # same samples, and the replay finds the same return on the same segment
        if isinstance(offset, str):
            offset = separatrix_offset(P, 0.8) + (0.5 if offset == "open probe" else -0.5) * BOUNDARY_WIDTH
        c = well_center(WellIndex(Side.LEFT, n), P)
        z0 = complex(c.real, c.imag + offset)
        start = z0, initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P)
        cfg = replace(PROBE_CONFIG, t_max=30.0)
        online = integrate(*start, cfg, P)
        run_on = integrate(*start, replace(cfg, stop_at_return=False), P)
        n = len(online)
        for name in ("t", "z", "p", "drift"):
            assert np.array_equal(getattr(online, name), getattr(run_on, name)[:n])
        replayed = analysis._recurrence(run_on)
        if online.termination is Termination.RETURNED:
            assert replayed == classify_orbit(online).period
            assert online.t[-2] < replayed <= online.t[-1]
        else:
            assert online.termination is Termination.ESCAPED and run_on.termination is Termination.ESCAPED
            assert replayed is None and n == len(run_on)

    def test_without_the_return_stop_integrates_on(self):
        traj = integrate(*_probe_start(0.2), replace(PROBE_CONFIG, stop_at_return=False), P)
        assert traj.termination is Termination.TIME_LIMIT
        assert traj.t[-1] == PROBE_CONFIG.t_max
        assert classify_orbit(traj).kind is OrbitKind.CLOSED


class TestBoundary:
    def test_direction_validation(self):
        with pytest.raises(DomainError):
            closed_orbit_boundary(WellIndex(Side.LEFT, 0), 0.8, P, direction=2)

    def test_probe_ending_by_drift_raises_at_once(self, monkeypatch):
        calls = _count_integrations(monkeypatch)
        monkeypatch.setattr(analysis, "PROBE_CONFIG", replace(PROBE_CONFIG, energy_drift_limit=1e-13))
        with pytest.raises(AmbiguousOrbitError) as exc_info:
            closed_orbit_boundary(WellIndex(Side.LEFT, 0), 0.8, P)
        msg = str(exc_info.value)
        lower = separatrix_offset(P, 0.8) - 0.5 * BOUNDARY_WIDTH
        assert f"offset {lower!r} " in msg and "drift_exceeded" in msg
        assert len(calls) == 1

    def test_wrong_probe_class_raises(self, monkeypatch):
        # a cell this narrow lets the closed probe escape too
        monkeypatch.setattr(analysis, "PROBE_CONFIG", replace(PROBE_CONFIG, escape_y_span=0.1))
        with pytest.raises(BracketingError, match="ended by escaped, .* ended by escaped"):
            closed_orbit_boundary(WellIndex(Side.LEFT, 0), 0.8, P)

    @pytest.mark.parametrize("n,direction", [(0, 1), (1, -1)])
    def test_two_probes_confirm_the_separatrix(self, n, direction, monkeypatch):
        calls = _count_integrations(monkeypatch)
        res = closed_orbit_boundary(WellIndex(Side.LEFT, n), 0.8, P, direction=direction)
        sep = separatrix_offset(P, 0.8)
        assert len(calls) == 2 and res.n_probes == 2
        assert res.offset == sep
        assert (res.closed_offset, res.open_offset) == (sep - 0.5 * BOUNDARY_WIDTH, sep + 0.5 * BOUNDARY_WIDTH)


def _count_integrations(monkeypatch) -> list:
    """Route analysis' integrate through a wrapper that records each call."""
    calls = []

    def counted(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(analysis, "integrate", counted)
    return calls


class TestSeparatrix:
    @pytest.mark.parametrize(
        "zeta,m_int,energy",
        [(0.1, 3, 0.8), (0.1, 3, 0.3), (0.1, 3, 2.0), (0.1, 2, 0.8), (0.3, 3, 0.8), (1.0, 4, 0.8), (0.1, 5, 1.5)],
    )
    def test_matches_30_digit_leaf(self, zeta, m_int, energy, mp_separatrix):
        got = separatrix_offset(SystemParams(zeta, m_int), energy)
        assert abs(got - float(mp_separatrix(zeta, m_int, energy))) <= 1e-12

    def test_rejects_non_finite_energy(self):
        with pytest.raises(DomainError):
            separatrix_offset(P, math.nan)

    def test_step_budget_raises(self, monkeypatch):
        # the leaf needs 9 trial steps to reach the well line
        monkeypatch.setattr(analysis, "_LEAF_MAX_STEPS", 8)
        with pytest.raises(AmbiguousOrbitError, match="within 8 steps"):
            separatrix_offset(P, 0.8)


class TestChirality:
    def test_synthetic_clockwise(self):
        t = np.linspace(0, 3.0, 50)
        center = 1.0 + 1.0j
        states = [PhaseState(tt, center + 0.3 * np.exp(-2j * tt), 0j) for tt in t]
        assert spiral_chirality(states, center) is Chirality.CLOCKWISE

    def test_synthetic_anticlockwise(self):
        t = np.linspace(0, 3.0, 50)
        center = -0.5j
        states = [PhaseState(tt, center + 0.2 * np.exp(1.7j * tt), 0j) for tt in t]
        assert spiral_chirality(states, center) is Chirality.ANTICLOCKWISE

    def test_degenerate_raises(self):
        # purely radial back-and-forth: no net winding
        rs = [0.1 + 0.01 * ((-1) ** k) for k in range(20)]
        states = [PhaseState(float(k), complex(r, 0), 0j) for k, r in enumerate(rs)]
        with pytest.raises(DegenerateWindingError):
            spiral_chirality(states, 0j)

    def test_too_few_samples(self):
        states = [PhaseState(float(k), 0.1 + 0.1j * k / 100, 0j) for k in range(5)]
        with pytest.raises(DomainError):
            spiral_chirality(states, 0j)

    def test_samples_outside_radius_rejected(self):
        states = [PhaseState(float(k), complex(k, 0), 0j) for k in range(12)]
        with pytest.raises(DomainError):
            spiral_chirality(states, 0j)


class TestSelfIntersections:
    def test_straight_line(self):
        t = np.linspace(0, 1, 64)
        traj = synthetic_trajectory(t, t * (1 + 0.5j), p=np.full(64, 0.5))
        assert self_intersections(traj) == 0

    def test_figure_eight(self):
        # lemniscate crossing itself once at the origin; the phase shift
        # keeps the crossing interior to segments rather than on a vertex
        t = np.linspace(0, 2 * math.pi, 401) + 0.123
        z = np.sin(t) + 1j * np.sin(2 * t)
        traj = synthetic_trajectory(np.linspace(0, 2 * math.pi, 401), z)
        assert self_intersections(traj) == 1

    @pytest.mark.parametrize("shape", ["scatter", "spiral"])
    def test_matches_brute_force(self, shape, rng):
        if shape == "scatter":
            t = np.arange(60.0)
            z = rng.uniform(-1, 1, 60) + 1j * rng.uniform(-1, 1, 60)
        else:
            # ten wobbling turns 0.02 apart: every grid cell on the ring
            # holds segments of all of them
            t = np.linspace(0.0, 20.0 * math.pi, 300)
            z = (1.0 + 0.003 * t + 0.03 * np.sin(5.1 * t)) * np.exp(1j * t)
        traj = synthetic_trajectory(t, z)
        pts = np.column_stack([z.real, z.imag])

        def orient(a, b, c):
            return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

        brute = 0
        n_seg = len(pts) - 1
        for i in range(n_seg):
            for j in range(i + 2, n_seg):
                a, b, c, d = pts[i], pts[i + 1], pts[j], pts[j + 1]
                d1, d2 = orient(c, d, a), orient(c, d, b)
                d3, d4 = orient(a, b, c), orient(a, b, d)
                if d1 * d2 < 0 and d3 * d4 < 0:
                    brute += 1
        assert brute > 0
        assert self_intersections(traj) == brute

    def test_too_short(self):
        traj = synthetic_trajectory(np.array([0.0, 1.0]), np.array([0j, 1 + 0j]))
        with pytest.raises(DomainError):
            self_intersections(traj)


class TestSpiralWindows:
    def test_windows_split_at_closest_approach(self, fig_tunneling):
        from ptwells import dwell_segments

        segs = dwell_segments(fig_tunneling)
        assert len(segs) >= 3
        seg = segs[1]
        side = seg.side
        center = well_center(
            WellIndex(side, 10 if side is Side.RIGHT else -10), P
        )
        inward, outward = spiral_windows(fig_tunneling, seg, center)
        assert len(inward) >= 10 and len(outward) >= 10
        r_in = [abs(s.z - center) for s in inward]
        r_out = [abs(s.z - center) for s in outward]
        assert r_in[-1] == min(r_in)
        assert r_out[0] == min(r_out)
