import math
import tracemalloc
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
    DwellSegment,
    InsufficientCrossingsError,
    IntegratorConfig,
    MomentumBranch,
    OrbitKind,
    Side,
    SystemParams,
    Termination,
    Trajectory,
    WellIndex,
    anchor_episodes,
    classify_orbit,
    closed_orbit_boundary,
    detect_axis_crossings,
    dwell_segments,
    initial_momentum,
    integrate,
    measure_tunneling,
    nearest_well,
    self_intersections,
    separatrix_offset,
    spiral_chirality,
    spiral_windows,
    tunnel_well_pair,
    well_center,
)
from ptwells import analysis
from ptwells.analysis import BOUNDARY_WIDTH, run_preset
from ptwells.dynamics import chart_coefficients
from ptwells.integrator import chart_invariants, real_period
from ptwells.wells import lattice_y_array, nearest_wells, well_x

P = SystemParams(0.1, 3)
OMEGA_R = real_period(*chart_invariants(chart_coefficients(P, 0.8 + 0j)))  # the real period at E = 0.8


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

    def test_run_that_keeps_only_its_start_is_no_equilibrium(self):
        # a deep start whose first step exceeds the drift limit keeps one sample, its
        # start: within RETURN_TOL of the start, yet no run of one real period
        z0 = -7.5 + 0.3j
        p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P)
        traj = integrate(z0, p0, IntegratorConfig(t_max=5.0, energy_drift_limit=1e-8), P)
        assert len(traj) == 1 and traj.termination is Termination.DRIFT_EXCEEDED
        with pytest.raises(AmbiguousOrbitError):
            classify_orbit(traj)
        with pytest.raises(DomainError, match="no step records"):  # it kept no step
            traj.state_at(0.0)

    @pytest.mark.parametrize("n", range(-3, 4))
    @pytest.mark.parametrize("direction", [1, -1])
    def test_near_separatrix_start_is_closed(self, n, direction):
        # 0.5297, 9.5e-5 inside the separatrix: its whip reaches Re z = -6.41, where a
        # step's energy error, measured in z, peaks at 3.0e-7
        c = well_center(WellIndex(Side.LEFT, n), P)
        z0 = complex(c.real, c.imag + direction * 0.5297)
        traj = integrate(z0, initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P), run_preset(0.8), P)
        assert traj.termination is Termination.TIME_LIMIT and traj.max_drift <= 1e-6
        oc = classify_orbit(traj)
        assert oc.kind is OrbitKind.CLOSED and abs(oc.period - OMEGA_R) <= 1e-14

    @pytest.mark.parametrize("d", [3e-6, 1e-6, 1e-9])
    def test_closed_start_at_the_separatrix_is_never_open(self, d):
        # d below the separatrix the whip passes |Re z| = 8 (8.14 at d = 3e-6, 8.45 at 1e-9):
        # the run comes back closed, or ends by drift, but never escapes
        traj = integrate(*_probe_start(separatrix_offset(P, 0.8) - d), run_preset(0.8, 2.0), P)
        assert traj.termination is not Termination.ESCAPED
        if traj.termination is Termination.TIME_LIMIT:
            assert classify_orbit(traj).kind is OrbitKind.CLOSED
        else:
            with pytest.raises(AmbiguousOrbitError):
                classify_orbit(traj)

    @pytest.mark.parametrize("offset", [0.2, 0.45, 0.6])
    def test_zero_energy_start_classifies_by_its_period(self, offset):
        # at E = 0 the well centers are equilibria and the lattice degenerates; the orbits
        # about them keep the real period T0 = pi / (2 sqrt(M^2 + zeta^2)), omega_R's limit.
        # 0.2 and 0.45 above left well 0 are back at their start after T0, closed; 0.6, run
        # on past its cell, comes back shifted by -i pi and gets no closed class
        c = well_center(WellIndex(Side.LEFT, 0), P)
        z0 = complex(c.real, c.imag + offset)
        cfg = IntegratorConfig(t_max=2.0, escape_y_span=math.inf)
        traj = integrate(z0, initial_momentum(z0, 0j, MomentumBranch.PRINCIPAL, P), cfg, P)
        assert traj.termination is Termination.TIME_LIMIT
        t0 = math.pi / (2.0 * math.hypot(P.m_int, P.zeta))
        if offset < 0.5:
            oc = classify_orbit(traj)
            assert oc.kind is OrbitKind.CLOSED and abs(oc.period - t0) <= 1e-12
        else:
            with pytest.raises(AmbiguousOrbitError):
                classify_orbit(traj)

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

    @pytest.mark.parametrize(
        "case,pair",
        [
            ("fig_tunneling", (-10, 10)),
            ("start_at_left_well_-2", (-1, 19)),
            ("start_straddles_the_first_prefix", (-1, 19)),
            ("run_across_the_prefix_end_changes_wells", (-5, 7)),
        ],
        ids=["fig_tunneling", "start_at_left_well_-2", "start_straddles_the_first_prefix", "run_across_the_prefix_end"],
    )
    def test_prefix_vote_equals_the_whole_run_vote(self, case, pair, request):
        # the vote reads a growing prefix of the samples; its pair is the one the
        # first visits of the whole run's episodes give
        traj = request.getfixturevalue(case) if case == "fig_tunneling" else _VOTE_CASES[case]()
        expected = _vote_on_every_sample(traj)
        assert (expected[0].n, expected[1].n) == pair
        assert analysis._vote_wells(traj) == expected

    def test_prefix_vote_from_a_well_center_drops_the_start(self):
        traj = _VOTE_CASES["start_at_left_well_-2"]()
        episodes = anchor_episodes(traj)
        assert episodes[0][0] == WellIndex(Side.LEFT, -2) and episodes[0][1] == 0
        # the first visits lie past the first prefix: the vote must read on
        assert episodes[1][1] > analysis._VOTE_PREFIX and episodes[2][1] > analysis._VOTE_PREFIX
        assert tunnel_well_pair(traj) == (WellIndex(Side.LEFT, -1), WellIndex(Side.RIGHT, 19))

    def test_prefix_vote_on_one_side_raises_as_the_whole_run(self):
        traj = _VOTE_CASES["left_side_only"]()
        assert len(traj) > 16 * analysis._VOTE_PREFIX  # every prefix is read, up to the whole run
        with pytest.raises(InsufficientCrossingsError) as whole:
            _vote_on_every_sample(traj)
        with pytest.raises(InsufficientCrossingsError, match=str(whole.value)):
            analysis._vote_wells(traj)

    def test_episode_sequence_alternates_sides(self, fig_tunneling):
        episodes = anchor_episodes(fig_tunneling)
        assert len(episodes) >= 4
        for (a, _, _), (b, _, _) in zip(episodes, episodes[1:]):
            assert a.side is not b.side
        # all complete visits spiral deep into their well's core
        for _, _, d in episodes[:-1]:
            assert d < 0.2


def _vote_on_every_sample(traj):
    """The well vote on the whole run, the reference: the first episode per side of
    anchor_episodes, less the episode of a start inside the anchor radius."""
    episodes = anchor_episodes(traj)
    if episodes and nearest_well(complex(traj.z[0]), traj.params)[1] < analysis.ANCHOR_RADIUS:
        episodes = episodes[1:]
    first = {}
    for well, _, _ in episodes:
        first.setdefault(well.side, well)
    for side in (Side.LEFT, Side.RIGHT):
        if side not in first:
            raise InsufficientCrossingsError(f"the orbit never settles at a {side.value}-side well")
    return first[Side.LEFT], first[Side.RIGHT]


def _polyline(start, legs):
    """Samples from ``start`` along straight legs (end point, samples on the leg), as a trajectory."""
    z, a = [], start
    for b, n in legs:
        z.append(np.linspace(a, b, n, endpoint=False))
        a = b
    z = np.concatenate(z + [[a]])
    return synthetic_trajectory(np.arange(len(z)) * 0.01, z)


def _visit(well, n):
    """Legs from the imaginary axis into a well's center and back, at the well's height."""
    c = well_center(well, P)
    return [(complex(0.0, c.imag), n), (c, n), (complex(0.0, c.imag), n)]


def _start_straddles_the_first_prefix():
    # 5,000 samples on a circle of radius 0.1 about the start, the center of left -2,
    # then left -1 near sample 7,000, up and down the imaginary axis (over 2 from every
    # center) to past sample 16,384, then right +19, left -3 and right +5
    c = well_center(WellIndex(Side.LEFT, -2), P)
    circle = [(c + 0.1 * np.exp(1j * a), 50) for a in np.linspace(0.0, 2.0 * math.pi, 101)[1:]]
    axis = [(complex(0.0, 20.0), 3000), (complex(0.0, -20.0), 3000)] * 2
    wells = [WellIndex(Side.RIGHT, 19), WellIndex(Side.LEFT, -3), WellIndex(Side.RIGHT, 5)]
    legs = circle + _visit(WellIndex(Side.LEFT, -1), 400) + axis + [v for w in wells for v in _visit(w, 400)]
    traj, n = _polyline(c + 0.1, legs), analysis._VOTE_PREFIX
    assert np.all(nearest_wells(traj.z[: n + 100], P)[2] < analysis.ANCHOR_RADIUS)
    assert min(k for w, k, _ in anchor_episodes(traj) if w.side is Side.RIGHT) > 4 * n
    return traj


def _run_across_the_prefix_end_changes_wells():
    # one run of samples inside the anchor radius across the end of the first prefix:
    # 0.3 from right 0 before it, at the center of left +2 from it on, so the whole run's
    # closest approach, and its well, lie past the prefix; right +7 comes later
    n = analysis._VOTE_PREFIX
    head = _polyline(0j, _visit(WellIndex(Side.LEFT, -5), 300) + [(0j, n - 96 - 900)]).z
    run = [well_center(WellIndex(Side.RIGHT, 0), P) + 0.3] * 96 + [well_center(WellIndex(Side.LEFT, 2), P)] * 100
    tail = _polyline(0j, _visit(WellIndex(Side.RIGHT, 7), 300)).z
    z = np.concatenate([head[:-1], run, tail])  # the head holds n - 96 samples
    return synthetic_trajectory(np.arange(len(z)) * 0.01, z)


def _left_side_only():
    wells = [WellIndex(Side.LEFT, n) for n in (-1, 0, 1, 0)] * 6
    return _polyline(0j, [v for w in wells for v in _visit(w, 1000)])


def _start_at_left_well_minus_2():
    z0 = well_center(WellIndex(Side.LEFT, -2), P)
    p0 = initial_momentum(z0, 1 + 1j, MomentumBranch.PRINCIPAL, P)
    return integrate(z0, p0, run_preset(1 + 1j, 60.0), P)


_VOTE_CASES = {
    "start_at_left_well_-2": _start_at_left_well_minus_2,
    "start_straddles_the_first_prefix": _start_straddles_the_first_prefix,
    "run_across_the_prefix_end_changes_wells": _run_across_the_prefix_end_changes_wells,
    "left_side_only": _left_side_only,
}


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
    # At E = 0.8 every orbit is back at its start after the real period omega_R,
    # a closed one to rounding and an open one shifted by +-i pi in z

    def test_probe_near_boundary_stops_at_first_return(self):
        # the lower boundary probe, 5e-5 below the separatrix, run to omega_R
        start = _probe_start(separatrix_offset(P, 0.8) - 0.5 * BOUNDARY_WIDTH)
        traj = integrate(*start, run_preset(0.8, OMEGA_R), P)
        assert traj.termination is Termination.TIME_LIMIT and traj.t[-1] == OMEGA_R
        dist = np.hypot(np.abs(traj.z - start[0]), np.abs(traj.p - start[1]))
        assert dist[-1] <= 1e-12
        # and omega_R is its first return: in between it stays away from the start
        assert dist[(traj.t > 0.05) & (traj.t < OMEGA_R - 0.05)].min() > 0.01
        oc = classify_orbit(traj)
        assert oc.kind is OrbitKind.CLOSED and abs(oc.period - OMEGA_R) <= 1e-14

    def test_probe_past_boundary_stops_at_cell_exit(self):
        # the upper boundary probe, 5e-5 above the separatrix, leaves its cell before omega_R
        traj = integrate(*_probe_start(separatrix_offset(P, 0.8) + 0.5 * BOUNDARY_WIDTH),
                         run_preset(0.8, OMEGA_R), P)
        assert traj.termination is Termination.ESCAPED
        assert traj.t[-1] < 0.5 < OMEGA_R
        assert abs(traj.z[-1].imag - traj.z[0].imag) > 0.5 * math.pi
        assert classify_orbit(traj).kind is OrbitKind.OPEN_ESCAPE

    @pytest.mark.parametrize("offset", [0.2, 0.4740, 0.52, 0.54, 0.6])
    def test_period_is_the_last_segment_return(self, offset):
        # classify_orbit's rule on a run past omega_R: the exact map of the step that
        # holds omega_R, from its start (Trajectory.state_at), lands on the start, or,
        # for the open starts (0.54, 0.6, run on with the cell exit lifted), on the
        # start shifted by +-i pi
        start = _probe_start(offset)
        traj = integrate(*start, replace(run_preset(0.8, 2.0), escape_y_span=math.inf), P)
        assert traj.termination is Termination.TIME_LIMIT
        z, p = traj.state_at(OMEGA_R)
        dz, dp = z - start[0], p - start[1]
        shift = math.copysign(math.pi, dz.imag) if offset > separatrix_offset(P, 0.8) else 0.0
        assert abs(dz - 1j * shift) <= 1e-12 and abs(dp) <= 1e-12
        if shift:
            with pytest.raises(AmbiguousOrbitError):
                classify_orbit(traj)
        else:
            oc = classify_orbit(traj)
            assert oc.kind is OrbitKind.CLOSED and abs(oc.period - OMEGA_R) <= 1e-14

    @pytest.mark.parametrize(
        "n,offset",
        [(0, "closed probe"), (0, "open probe"), (-2, "closed probe")]
        + [(0, offset) for offset in (0.2, 0.4740, 0.52, 0.54, 0.6)],
    )
    def test_online_return_is_the_replayed_one(self, n, offset):
        # the boundary probes above left wells 0 and -2 and criterion 7(d)'s starts,
        # with the cell exit lifted: a run stopped at omega_R, as the probes are, and
        # a longer run read at omega_R from its step records, as classify_orbit
        # reads it, reach the same state, the start or the start shifted by +-i pi,
        # and get the same class
        if isinstance(offset, str):
            offset = separatrix_offset(P, 0.8) + (0.5 if offset == "open probe" else -0.5) * BOUNDARY_WIDTH
        c = well_center(WellIndex(Side.LEFT, n), P)
        z0 = complex(c.real, c.imag + offset)
        p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P)
        cfg = replace(run_preset(0.8), escape_y_span=math.inf)
        online = integrate(z0, p0, replace(cfg, t_max=OMEGA_R), P)
        longer = integrate(z0, p0, replace(cfg, t_max=2.0), P)
        z, p = longer.state_at(OMEGA_R)
        assert abs(online.z[-1] - z) <= 1e-12 and abs(online.p[-1] - p) <= 1e-12
        dz = online.z[-1] - z0
        opened = offset > separatrix_offset(P, 0.8)
        assert abs(abs(dz.imag) - (math.pi if opened else 0.0)) <= 1e-12 and abs(dz.real) <= 1e-12
        if opened:
            for traj in (online, longer):
                with pytest.raises(AmbiguousOrbitError):
                    classify_orbit(traj)
        else:
            assert classify_orbit(online) == classify_orbit(longer)
            assert abs(classify_orbit(online).period - OMEGA_R) <= 1e-14

    def test_without_the_return_stop_integrates_on(self):
        # the real-energy preset runs to its t_max, and a closed run past omega_R classifies by it
        traj = integrate(*_probe_start(0.2), run_preset(0.8, 15.0), P)
        assert traj.termination is Termination.TIME_LIMIT
        assert traj.t[-1] == 15.0
        oc = classify_orbit(traj)
        assert oc.kind is OrbitKind.CLOSED and abs(oc.period - OMEGA_R) <= 1e-14

    def test_run_shorter_than_the_period_stays_ambiguous(self):
        start = _probe_start(0.4740)
        short = integrate(*start, IntegratorConfig(t_max=0.99 * OMEGA_R), P)
        with pytest.raises(AmbiguousOrbitError):
            classify_orbit(short)
        assert abs(classify_orbit(integrate(*start, IntegratorConfig(t_max=OMEGA_R), P)).period - OMEGA_R) <= 1e-14


class TestBoundary:
    def test_direction_validation(self):
        with pytest.raises(DomainError):
            closed_orbit_boundary(WellIndex(Side.LEFT, 0), 0.8, P, direction=2)

    def test_probe_ending_by_drift_fails_the_bracket(self, monkeypatch):
        calls = _count_integrations(monkeypatch)
        preset = analysis.run_preset
        monkeypatch.setattr(analysis, "run_preset", lambda *args: replace(preset(*args), energy_drift_limit=1e-13))
        with pytest.raises(BracketingError) as exc_info:
            closed_orbit_boundary(WellIndex(Side.LEFT, 0), 0.8, P)
        lower = separatrix_offset(P, 0.8) - 0.5 * BOUNDARY_WIDTH
        assert f"offset {lower!r} ended by drift_exceeded" in str(exc_info.value)
        assert len(calls) == 2

    def test_wrong_probe_class_raises(self, monkeypatch):
        # a cell this narrow lets the closed probe escape too
        preset = analysis.run_preset
        monkeypatch.setattr(analysis, "run_preset", lambda *args: replace(preset(*args), escape_y_span=0.1))
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

    @pytest.mark.parametrize("zeta,m_int,energy", [(0.001, 3, 0.8), (0.001, 6, 3.0)])
    def test_deep_wells_keep_the_closed_probe(self, zeta, m_int, energy):
        # at small zeta the wells and the closed probe's whip lie about ln(0.1/zeta)/2
        # further left: past |Re z| = 8, yet the probe comes back closed
        params = SystemParams(zeta, m_int)
        res = closed_orbit_boundary(WellIndex(Side.LEFT, 0), energy, params)
        assert res.offset == separatrix_offset(params, energy)


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
        [
            (0.1, 3, 0.8), (0.1, 3, 0.3), (0.1, 3, 2.0), (0.1, 2, 0.8), (0.3, 3, 0.8), (1.0, 4, 0.8), (0.1, 5, 1.5),
            (0.1, 1, 20.0),  # crosses at t = 0.124, beyond the reach of one Laurent step from s = 0
        ],
    )
    def test_matches_30_digit_leaf(self, zeta, m_int, energy, mp_separatrix):
        got = separatrix_offset(SystemParams(zeta, m_int), energy)
        assert abs(got - float(mp_separatrix(zeta, m_int, energy))) <= 1e-12

    def test_rejects_non_finite_energy(self):
        with pytest.raises(DomainError):
            separatrix_offset(P, math.nan)

    @pytest.mark.parametrize("zeta,m_int,energy", [(0.1, 1, -2.0), (0.1, 3, -10.0), (0.3, 2, -5.0), (1.0, 4, -20.0)])
    def test_leaf_that_misses_the_well_line_raises(self, zeta, m_int, energy):
        # within one real period the leaf's |s| stays below r_w: no orbit on the well line is closed
        params = SystemParams(zeta, m_int)
        with pytest.raises(DomainError, match="does not reach the well line"):
            separatrix_offset(params, energy)
        with pytest.raises(DomainError, match="does not reach the well line"):
            closed_orbit_boundary(WellIndex(Side.LEFT, 0), energy, params)

    def test_rejects_complex_energy(self):
        # no orbit is closed at a complex energy; the probes would report a bracket failure
        with pytest.raises(DomainError, match="needs a real energy"):
            separatrix_offset(P, 0.8 + 0.1j)
        with pytest.raises(DomainError, match="needs a real energy"):
            closed_orbit_boundary(WellIndex(Side.LEFT, 0), 0.8 + 0.1j, P)

    def test_step_budget_raises(self, monkeypatch):
        # Newton's method needs 4 steps from the linear guess inside the crossing step to the well line
        monkeypatch.setattr(analysis, "_LEAF_NEWTON", 3)
        with pytest.raises(AmbiguousOrbitError, match="within 3 Newton steps"):
            separatrix_offset(P, 0.8)


class TestChirality:
    def test_synthetic_clockwise(self):
        t = np.linspace(0, 3.0, 50)
        center = 1.0 + 1.0j
        z = center + 0.3 * np.exp(-2j * t)
        assert spiral_chirality(z, center) is Chirality.CLOCKWISE

    def test_synthetic_anticlockwise(self):
        t = np.linspace(0, 3.0, 50)
        center = -0.5j
        z = center + 0.2 * np.exp(1.7j * t)
        assert spiral_chirality(z, center) is Chirality.ANTICLOCKWISE

    def test_degenerate_raises(self):
        # purely radial back-and-forth: no net winding
        rs = [0.1 + 0.01 * ((-1) ** k) for k in range(20)]
        with pytest.raises(DegenerateWindingError):
            spiral_chirality(np.array(rs, dtype=complex), 0j)

    def test_too_few_samples(self):
        z = 0.1 + 0.1j * np.arange(5) / 100
        with pytest.raises(DomainError):
            spiral_chirality(z, 0j)

    def test_samples_outside_radius_rejected(self):
        with pytest.raises(DomainError):
            spiral_chirality(np.arange(12, dtype=complex), 0j)


def _brute_force_crossings(z: np.ndarray) -> int:
    """The transversal crossings of the polyline z, segment i against every segment j >= i + 2,
    one row of pairs at a time."""
    x, y, n = z.real, z.imag, len(z)

    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    count = 0
    for i in range(n - 3):
        a, b = (x[i], y[i]), (x[i + 1], y[i + 1])
        c, d = (x[i + 2 : n - 1], y[i + 2 : n - 1]), (x[i + 3 :], y[i + 3 :])
        d1, d2 = orient(c, d, a), orient(c, d, b)
        d3, d4 = orient(a, b, c), orient(a, b, d)
        count += int(np.count_nonzero((d1 * d2 < 0) & (d3 * d4 < 0)))
    return count


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
        brute = _brute_force_crossings(z)
        assert brute > 0
        assert self_intersections(traj) == brute

    def test_too_short(self):
        traj = synthetic_trajectory(np.array([0.0, 1.0]), np.array([0j, 1 + 0j]))
        with pytest.raises(DomainError):
            self_intersections(traj)

    def test_matches_brute_force_on_closed_figure_head(self, fig_closed):
        # the loops of a closed orbit retrace each other at rounding level: the
        # first 3,000 samples of the closed figure hold 36,887 such crossings
        n = 3000
        head = synthetic_trajectory(fig_closed.t[:n], fig_closed.z[:n], p=fig_closed.p[:n])
        brute = _brute_force_crossings(fig_closed.z[:n])
        assert brute > 0
        assert self_intersections(head) == brute

    def test_memory_is_linear_in_samples(self, fig_closed):
        # the 16,353 samples of the closed figure hold 1,166,030 crossings;
        # gathering every candidate pair before testing any took 425 MB
        tracemalloc.start()
        try:
            count = self_intersections(fig_closed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 1_166_030
        assert peak <= 32 * 2**20

    def test_one_long_segment_coarsens_the_grid(self):
        # 2,000 crossing steps of 9e-9 to 3.5e-8, then one jump of 1.41: at the mean
        # segment length the jump's box alone held about 2,000,000 cells (92 MiB
        # traced), and 50,000 such steps would have held 1.25e9
        t = np.linspace(0.0, 6.0 * math.pi, 2001) + 0.123
        z = 1.4e-6 * (1.0 + 0.01 * t) * (np.sin(t) + 1j * np.sin(2.0 * t))
        z = np.append(z, z[-1] + (1 + 1j))
        traj = synthetic_trajectory(np.arange(len(z), dtype=float), z)
        tracemalloc.start()
        try:
            count = self_intersections(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        brute = _brute_force_crossings(z)
        assert brute > 0
        assert count == brute
        assert peak <= 4 * 2**20


class TestSpiralWindows:
    def test_windows_split_at_closest_approach(self, fig_tunneling):
        segs = dwell_segments(fig_tunneling)
        assert len(segs) >= 3
        seg = segs[1]
        side = seg.side
        center = well_center(
            WellIndex(side, 10 if side is Side.RIGHT else -10), P
        )
        inward, outward = spiral_windows(fig_tunneling, seg, center)
        assert len(inward) >= 10 and len(outward) >= 10
        r_in = np.abs(inward - center)
        r_out = np.abs(outward - center)
        assert r_in[-1] == min(r_in)
        assert r_out[0] == min(r_out)

    def test_windows_equal_the_sample_scan(self, fig_tunneling):
        # the reference scans out from the closest approach one sample at a
        # time, about the visited well and about a point far from the orbit
        segs = dwell_segments(fig_tunneling)
        assert len(segs) == 8
        long_windows = 0
        for seg in segs:
            zseg = fig_tunneling.z[seg.i_first : seg.i_last + 1]
            visited = complex(zseg[np.argmin(nearest_wells(zseg, P)[2])])
            near = well_center(nearest_well(visited, P)[0], P)
            for center in (near, near + 100.0):
                r = np.abs(zseg - center)
                k_min = int(np.argmin(r))
                lo = k_min
                while lo > 0 and r[lo - 1] <= math.pi / 4:
                    lo -= 1
                hi = k_min
                while hi + 1 < len(r) and r[hi + 1] <= math.pi / 4:
                    hi += 1
                inward, outward = spiral_windows(fig_tunneling, seg, center)
                np.testing.assert_array_equal(inward, zseg[lo : k_min + 1])
                np.testing.assert_array_equal(outward, zseg[k_min : hi + 1])
                long_windows += len(inward) >= 10 and len(outward) >= 10
        assert long_windows == len(segs)

    def test_closest_approach_beyond_quarter_pi_keeps_its_sample(self):
        # a dwell that never comes within pi/4 of the center: both windows are
        # the closest sample, which is itself beyond pi/4
        t = np.linspace(0.0, 1.0, 40)
        z = 1.0 + 0.5 * (t - 0.3) ** 2 + 1j * (t - 0.3)
        traj = synthetic_trajectory(t, z)
        seg = DwellSegment(Side.RIGHT, 0.0, 1.0, i_first=0, i_last=39)
        inward, outward = spiral_windows(traj, seg, 0j)
        k_min = int(np.argmin(np.abs(z)))
        assert 0 < k_min < 39 and abs(z[k_min]) > math.pi / 4
        np.testing.assert_array_equal(inward, z[k_min : k_min + 1])
        np.testing.assert_array_equal(outward, z[k_min : k_min + 1])
