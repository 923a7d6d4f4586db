"""Orbit classification, axis-crossing detection, and dwell statistics.

Conventions: the imaginary axis (Re z = 0) separates the left and right
well columns.  A "crossing" is a sign change of Re z; the dwell between
two consecutive crossings is attributed to the side the particle entered.
The tunneling time is the mean of the two per-side dwell means.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dynamics import SystemParams, chart_accel, chart_coefficients
from .errors import (
    AmbiguousOrbitError,
    BracketingError,
    ClassificationMismatchError,
    DegenerateWindingError,
    DomainError,
    InsufficientCrossingsError,
)
from .integrator import (
    IntegratorConfig,
    MomentumBranch,
    Termination,
    Trajectory,
    chart_invariants,
    chart_step,
    initial_momentum,
    integrate,
    laurent_coefficients,
    real_period,
    step_constants,
)
from .wells import Side, WellIndex, nearest_well, nearest_wells, well_center, well_x

__all__ = [
    "CrossingDirection",
    "CrossingEvent",
    "DwellSegment",
    "TunnelingStats",
    "OrbitKind",
    "OrbitClass",
    "Chirality",
    "BoundaryResult",
    "detect_axis_crossings",
    "dwell_segments",
    "measure_tunneling",
    "tunnel_well_pair",
    "classify_orbit",
    "closed_orbit_boundary",
    "run_preset",
    "separatrix_offset",
    "spiral_chirality",
    "spiral_windows",
    "self_intersections",
]

# Spread of the two boundary probes about the separatrix.
BOUNDARY_WIDTH = 1e-4

# separatrix_offset's most Newton iterations
_LEAF_NEWTON = 16

# The exit from a start's lattice cell: |Im z - Im z0| beyond half the lattice
# period.  A closed orbit at real energy stays within 1.31 of its start's Im z.
CELL_EXIT_SPAN = 0.5 * math.pi

# Expected dwell-average scale: tau ~ TAU_SCALE / E2 (the observed product
# E2 * tau stays near 16); tunneling horizons default to 40 expected taus.
TAU_SCALE = 16.0

# The escape radius at complex energy.  The whips of the 27 table rows, the
# eight well-pair map runs and the E = 1 - i figure reach |Re z| = 6.955 at most.
TUNNELING_ESCAPE_RADIUS = 12.0

# Distance in (z, p), as a 4-real-vector, within which a real-energy run is back at its start
# after one real period: a closed orbit to rounding (9.2e-15 on the closed figure), an open one i pi off.
RETURN_TOL = 1e-8


def default_t_max(energy: complex) -> float:
    if energy.imag == 0:
        return IntegratorConfig.t_max
    return max(IntegratorConfig.t_max, 40.0 * TAU_SCALE / abs(energy.imag))


def run_preset(energy: complex, t_max: float | None = None) -> IntegratorConfig:
    """The integrator config of every run at ``energy``: ``IntegratorConfig``'s guards,
    to ``t_max`` when given, else to ``default_t_max(energy)``.  At real energy a run
    also escapes when it leaves its start's lattice cell (an open orbit there runs down
    the well column with Re z bounded); at complex energy the escape radius is
    ``TUNNELING_ESCAPE_RADIUS``.
    """
    t_max = default_t_max(energy) if t_max is None else t_max
    if energy.imag == 0:
        return IntegratorConfig(t_max=t_max, escape_y_span=CELL_EXIT_SPAN)
    return IntegratorConfig(t_max=t_max, escape_radius=TUNNELING_ESCAPE_RADIUS)


class CrossingDirection(enum.Enum):
    LEFT_TO_RIGHT = "left_to_right"
    RIGHT_TO_LEFT = "right_to_left"


@dataclass(frozen=True)
class CrossingEvent:
    """One transit of the imaginary axis."""

    t_cross: float
    y_at_cross: float
    direction: CrossingDirection
    index: int  # sample index of the segment start containing the crossing


@dataclass(frozen=True)
class DwellSegment:
    """A full stay on one side, between consecutive crossings."""

    side: Side
    t_start: float
    t_end: float
    i_first: int  # first sample index strictly after the entering crossing
    i_last: int  # last sample index before the leaving crossing

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class TunnelingStats:
    dwell_left_mean: float
    dwell_right_mean: float
    n_cycles: int

    @property
    def tunneling_time(self) -> float:
        return 0.5 * (self.dwell_left_mean + self.dwell_right_mean)


class OrbitKind(enum.Enum):
    CLOSED = "closed"
    OPEN_ESCAPE = "open_escape"
    TUNNELING = "tunneling"


@dataclass(frozen=True)
class OrbitClass:
    kind: OrbitKind
    period: float | None = None
    anchor: WellIndex | None = None
    escape_side: Side | None = None
    wells: tuple[WellIndex, WellIndex] | None = None  # (left, right)


class Chirality(enum.Enum):
    CLOCKWISE = "clockwise"
    ANTICLOCKWISE = "anticlockwise"


def detect_axis_crossings(traj: Trajectory) -> list[CrossingEvent]:
    """All sign changes of Re z, located on the linear interpolant.

    A crossing time is the root of the interpolant of Re z between the
    two samples of opposite sign, and its y is the interpolant of Im z
    there.  The direction is the side the orbit crosses to, the sign of
    Re z after the flip.  Samples landing exactly on the axis are bridged
    by the surrounding nonzero-sign samples.
    """
    if len(traj) == 0:
        raise DomainError("empty trajectory")
    x = traj.z.real
    y = traj.z.imag
    nz = np.nonzero(x != 0.0)[0]
    if len(nz) < 2:
        return []
    s = np.sign(x[nz])
    flips = np.nonzero(s[:-1] != s[1:])[0]

    events: list[CrossingEvent] = []
    for f in flips:
        i, j = int(nz[f]), int(nz[f + 1])
        ti, tj = float(traj.t[i]), float(traj.t[j])
        xi, xj = float(x[i]), float(x[j])
        t_star = ti - xi * (tj - ti) / (xj - xi)
        frac = (t_star - ti) / (tj - ti)
        y_star = float(y[i]) + frac * (float(y[j]) - float(y[i]))
        direction = CrossingDirection.LEFT_TO_RIGHT if xj > 0 else CrossingDirection.RIGHT_TO_LEFT
        events.append(CrossingEvent(t_star, y_star, direction, i))
    return events


def dwell_segments(traj: Trajectory, crossings: Sequence[CrossingEvent] | None = None) -> list[DwellSegment]:
    """Full dwell segments between consecutive committed crossings.

    A crossing opens a dwell only if the orbit then reaches at least
    half the well-column |x| before crossing back: transits
    occasionally graze the imaginary axis (sign wiggles lasting ~0.1 time
    units at |Re z| ~ 0.1), and without the hysteresis those grazes would
    enter the dwell statistics as spurious sub-unit dwells.  The partial
    stretches before the first and after the last committed crossing are
    not segments.
    """
    if crossings is None:
        crossings = detect_axis_crossings(traj)
    if len(crossings) < 2:
        return []
    x_commit = 0.5 * well_x(traj.params)
    abs_x = np.abs(traj.z.real)
    n_last = len(traj) - 1

    kept: list[CrossingEvent] = []
    last_side: Side | None = None
    for i, ev in enumerate(crossings):
        side = Side.RIGHT if ev.direction is CrossingDirection.LEFT_TO_RIGHT else Side.LEFT
        i0 = ev.index + 1
        i1 = crossings[i + 1].index if i + 1 < len(crossings) else n_last
        peak = float(abs_x[i0 : i1 + 1].max()) if i1 >= i0 else 0.0
        if side is not last_side and peak >= x_commit:
            kept.append(ev)
            last_side = side

    segs: list[DwellSegment] = []
    for a, b in zip(kept[:-1], kept[1:]):
        side = Side.RIGHT if a.direction is CrossingDirection.LEFT_TO_RIGHT else Side.LEFT
        segs.append(
            DwellSegment(
                side=side,
                t_start=a.t_cross,
                t_end=b.t_cross,
                i_first=a.index + 1,
                i_last=b.index,
            )
        )
    return segs


def measure_tunneling(traj: Trajectory, crossings: Sequence[CrossingEvent] | None = None) -> TunnelingStats:
    """Per-side mean dwell times and their average, the tunneling time, from the
    trajectory's axis crossings (found here unless given)."""
    if crossings is None:
        crossings = detect_axis_crossings(traj)
    if len(crossings) < 3:
        raise InsufficientCrossingsError(
            f"need >= 3 axis crossings for dwell statistics, got {len(crossings)}"
        )
    segs = dwell_segments(traj, crossings)
    left = [s.duration for s in segs if s.side is Side.LEFT]
    right = [s.duration for s in segs if s.side is Side.RIGHT]
    if not left or not right:
        raise InsufficientCrossingsError("dwell segments missing on one side")
    return TunnelingStats(
        dwell_left_mean=sum(left) / len(left),
        dwell_right_mean=sum(right) / len(right),
        n_cycles=min(len(left), len(right)),
    )


ANCHOR_RADIUS = 0.35


def anchor_episodes(traj: Trajectory) -> list[tuple[WellIndex, int, float]]:
    """Maximal sample runs spent within ``ANCHOR_RADIUS`` of some well center.

    Returns (well, sample index of closest approach, closest distance) per
    episode, consecutive same-well episodes merged.  Spirals pass within
    ~0.1 of the well they orbit while transits between well columns stay
    at least a well-x away from every center, so the episode sequence
    reads off which wells the orbit actually visits, robustly even when
    spiral loops wrap across the imaginary axis.
    """
    right, n, d = nearest_wells(traj.z, traj.params)
    episodes: list[tuple[WellIndex, int, float]] = []
    # the runs [i, j) of samples inside, from the edges of the inside mask padded with False
    edges = np.flatnonzero(np.diff(np.concatenate(([False], d < ANCHOR_RADIUS, [False]))))
    for i, j in zip(edges[::2].tolist(), edges[1::2].tolist()):
        k = i + int(np.argmin(d[i:j]))
        well = WellIndex(Side.RIGHT if right[k] else Side.LEFT, int(n[k]))
        if not episodes or episodes[-1][0] != well:
            episodes.append((well, k, float(d[k])))
        elif d[k] < episodes[-1][2]:
            episodes[-1] = (well, k, float(d[k]))
    return episodes


def _vote_wells(traj: Trajectory) -> tuple[WellIndex, WellIndex]:
    """The (left, right) wells of the first visit episode on each side.

    The first visits identify the pair the orbit initially oscillates
    between; over long runs the anchors migrate to neighboring lattice
    cells, which the first visits deliberately ignore.  The episode that
    holds sample 0 is where the orbit starts, not a visit: an orbit
    launched from a well center may leave that well for good.
    """
    episodes = anchor_episodes(traj)
    if episodes and nearest_well(complex(traj.z[0]), traj.params)[1] < ANCHOR_RADIUS:
        episodes = episodes[1:]
    first: dict[Side, WellIndex] = {}
    for well, _, _ in episodes:
        first.setdefault(well.side, well)
    for side in (Side.LEFT, Side.RIGHT):
        if side not in first:
            raise InsufficientCrossingsError(f"the orbit never settles at a {side.value}-side well")
    return first[Side.LEFT], first[Side.RIGHT]


def tunnel_well_pair(traj: Trajectory) -> tuple[WellIndex, WellIndex]:
    """The (left, right) wells a tunneling orbit oscillates between.

    Wells are identified by the orbit's closest-approach episodes (the
    spiral cores pass within ~0.1 of their center), taking the first
    visit per side.  A start inside a well's anchor radius is not a
    visit to that well: the orbit from the center of left well -2 at
    zeta=0.1, M=3, E=1+i oscillates between -1 and +19 and never returns
    to -2.  The deepest |Re z| sample of a dwell is deliberately
    not used as the witness: it sits on the outward excursion, whose y can
    be a full lattice cell away from the orbited well.
    """
    crossings = detect_axis_crossings(traj)
    if len(crossings) < 3 or traj.termination is Termination.ESCAPED:
        raise ClassificationMismatchError(
            "well-pair extraction requires a tunneling orbit "
            f"(crossings={len(crossings)}, termination={traj.termination.value})"
        )
    return _vote_wells(traj)


def _return_miss(traj: Trajectory, z, p):
    """The distance of the states (z, p), scalars or arrays, from the run's start, in
    (z, p) as a 4-real-vector."""
    return np.hypot(np.abs(z - traj.z[0]), np.abs(p - traj.p[0]))


def _closed_period(traj: Trajectory) -> float | None:
    """The period of a closed orbit, or None if the run shows none.

    A run shorter than the real period omega_R of its lattice
    (``integrator.real_period``), or on a lattice with no finite real period,
    shows none.  Otherwise 0.0 for a run that never leaves the ball of radius
    ``RETURN_TOL`` about its start (an equilibrium), else omega_R if the state
    at t = omega_R, one exact step from the last sample at or before it, lies
    within ``RETURN_TOL`` of the start.
    """
    try:
        period = real_period(*chart_invariants(chart_coefficients(traj.params, traj.energy)))
    except DomainError:
        return None
    if traj.t[-1] < period:
        return None
    if np.all(_return_miss(traj, traj.z, traj.p) <= RETURN_TOL):
        return 0.0
    i = int(np.searchsorted(traj.t, period, side="right")) - 1
    z, p, h = complex(traj.z[i]), complex(traj.p[i]), period - float(traj.t[i])
    if h > 0.0:
        end = integrate(z, p, replace(traj.config, t_max=h), traj.params)
        if end.termination is not Termination.TIME_LIMIT:
            return None
        z, p = complex(end.z[-1]), complex(end.p[-1])
    return period if _return_miss(traj, z, p) <= RETURN_TOL else None


def classify_orbit(traj: Trajectory, crossings: Sequence[CrossingEvent] | None = None) -> OrbitClass:
    """Closed, open-escape, or tunneling; anything else raises.

    Closed: a run with no axis crossing that did not escape and is back at its
    start after one real period, to within ``RETURN_TOL`` in (z, p): its period
    is omega_R (see ``_closed_period``).  At real energy every orbit is back
    after omega_R, an open one shifted by i pi in z.  Open escape: the run
    escaped with at most one crossing.  Tunneling: at least three alternating
    crossings on a run that did not escape; drift- or step-terminated runs
    classify on their retained (certified) samples.  The axis crossings are
    found here unless given.
    """
    if crossings is None:
        crossings = detect_axis_crossings(traj)
    escaped = traj.termination is Termination.ESCAPED
    if escaped and len(crossings) <= 1:
        side = Side.RIGHT if traj.z[-1].real > 0 else Side.LEFT
        return OrbitClass(kind=OrbitKind.OPEN_ESCAPE, escape_side=side)
    if not crossings and not escaped:
        period = _closed_period(traj)
        if period is not None:
            anchor, _ = nearest_well(complex(np.mean(traj.z)), traj.params)
            return OrbitClass(kind=OrbitKind.CLOSED, period=period, anchor=anchor)
    if len(crossings) >= 3 and not escaped:
        left, right = _vote_wells(traj)
        return OrbitClass(kind=OrbitKind.TUNNELING, wells=(left, right))
    raise AmbiguousOrbitError(
        f"no orbit class fits: termination={traj.termination.value}, "
        f"crossings={len(crossings)}, t_end={traj.t[-1]:.6g}"
    )


@dataclass(frozen=True)
class BoundaryResult:
    """Critical start offset separating closed orbits from escape."""

    offset: float
    closed_offset: float
    open_offset: float
    n_probes: int
    # (max_drift, drift_floor_rss) of every probe integration
    probe_drifts: tuple[tuple[float, float], ...]


def separatrix_offset(params: SystemParams, energy_real: float) -> float:
    """The closed-orbit boundary: the start offset of the separatrix, the leaf
    from s = 0 (Re z = -inf) with s' = +2 zeta in the chart s = e^{2z}, at its
    first crossing of |s| = r_w = e^{-2 x_w} (Re z = -x_w, with x_w of
    :func:`well_x`).  Every left well maps to s = -i r_w, and s -> -conj(s) maps
    the leaf onto the one with s' = -2 zeta, so the offset (arg s + pi/2)/2 holds
    for every well and both directions.

    The crossing time t solves |s(t)| = r_w by Newton's method on the exact flow
    map ``integrator.chart_step`` from s = 0, one step of length t, started at the
    free-flight time r_w / (2 zeta).
    """
    energy = complex(energy_real)
    q = chart_coefficients(params, energy)
    coeffs = laurent_coefficients(*chart_invariants(q))
    r_w = math.exp(-2.0 * well_x(params))
    v0 = complex(2.0 * params.zeta)
    a, qw = chart_accel(q, 0j)
    t = r_w / v0.real
    for _ in range(_LEAF_NEWTON):
        w, v = chart_step(q, 0j, v0, a, qw, step_constants(t, coeffs))[:2]
        dt = (abs(w) - r_w) * abs(w) / (w.conjugate() * v).real  # d|s|/dt = Re(conj(s) s') / |s|
        t -= dt
        if abs(dt) <= 1e-15 * t:
            return 0.5 * (cmath.phase(w) + 0.5 * math.pi)
    raise AmbiguousOrbitError(
        f"the separatrix leaf did not land on |s| = r_w within {_LEAF_NEWTON} Newton steps "
        f"({params}, E={energy_real!r})"
    )


def closed_orbit_boundary(
    idx: WellIndex, energy_real: float, params: SystemParams, direction: int = 1
) -> BoundaryResult:
    """The critical y-offset from a well center at real energy,
    :func:`separatrix_offset`, confirmed by two probes.

    The probes start at the well's x, ``BOUNDARY_WIDTH``/2 = 5e-5 below and above
    the separatrix in Im z (signed by ``direction``), and each integrates with
    ``run_preset`` to one real period omega_R (``integrator.real_period``).  The
    lower must end closed: at t = omega_R (``TIME_LIMIT``), back within
    ``RETURN_TOL`` of its start.  The upper must end open, leaving its cell
    (``ESCAPED``: Im z moves pi/2, on its first whip down the well column).
    Otherwise a BracketingError reports both; a probe that ends by drift or step
    budget raises AmbiguousOrbitError.
    """
    if direction not in (-1, 1):
        raise DomainError(f"direction must be +1 or -1, got {direction!r}")
    sep = separatrix_offset(params, energy_real)
    config = run_preset(energy_real, real_period(*chart_invariants(chart_coefficients(params, energy_real))))
    center = well_center(idx, params)
    lo, hi = sep - 0.5 * BOUNDARY_WIDTH, sep + 0.5 * BOUNDARY_WIDTH
    runs: list[Trajectory] = []
    for offset in (lo, hi):
        z0 = complex(center.real, center.imag + direction * offset)
        p0 = initial_momentum(z0, complex(energy_real), MomentumBranch.PRINCIPAL, params)
        traj = integrate(z0, p0, config, params)
        if traj.termination in (Termination.DRIFT_EXCEEDED, Termination.STEP_LIMIT):
            raise AmbiguousOrbitError(
                f"probe at offset {offset!r} ended by {traj.termination.value} "
                f"at t={float(traj.t[-1])!r}, kept drift up to {traj.max_drift!r}"
            )
        runs.append(traj)
    lower, upper = runs
    miss = _return_miss(lower, lower.z[-1], lower.p[-1])
    returned = lower.termination is Termination.TIME_LIMIT and miss <= RETURN_TOL
    if not returned or upper.termination is not Termination.ESCAPED:
        raise BracketingError(
            f"probes do not confirm the separatrix {sep!r}: offset {lo!r} ended by {lower.termination.value}, "
            f"offset {hi!r} ended by {upper.termination.value}; the lower ended {miss:.3g} off its start"
        )
    return BoundaryResult(
        offset=sep,
        closed_offset=lo,
        open_offset=hi,
        n_probes=len(runs),
        probe_drifts=tuple((traj.max_drift, traj.drift_floor_rss) for traj in runs),
    )


def spiral_chirality(z: np.ndarray, center: complex) -> Chirality:
    """Sense of rotation of a spiral window, an array of z samples, about a well center.

    The accumulated winding angle of z - center decides: negative is
    clockwise, positive anticlockwise.  Zero net winding has no chirality
    and raises.
    """
    if len(z) < 10:
        raise DomainError(f"need >= 10 samples, got {len(z)}")
    rel = np.asarray(z, dtype=complex) - center
    if np.any(np.abs(rel) > math.pi / 4):
        raise DomainError("all samples must lie within pi/4 of the center")
    if np.any(rel == 0):
        raise DomainError("segment passes exactly through the center")
    winding = float(np.sum(np.angle(rel[1:] / rel[:-1])))
    if abs(winding) <= 1e-9:
        raise DegenerateWindingError(f"zero net winding ({winding!r})")
    return Chirality.CLOCKWISE if winding < 0 else Chirality.ANTICLOCKWISE


def spiral_windows(traj: Trajectory, seg: DwellSegment, center: complex) -> tuple[np.ndarray, np.ndarray]:
    """Inward and outward spiral windows of one dwell, as slices of ``traj.z``.

    Both windows are contiguous sample runs within pi/4 of the well
    center, split at the closest approach: the inward window ends there,
    the outward one starts there.  A closest approach beyond pi/4 gives
    both windows that one sample.
    """
    if seg.i_last < seg.i_first:
        raise DomainError("dwell segment holds no samples")
    zseg = traj.z[seg.i_first : seg.i_last + 1]
    r = np.abs(zseg - center)
    k_min = int(np.argmin(r))
    # the samples beyond pi/4, between sentinels before the first sample and after the last
    far = np.concatenate(([-1], np.flatnonzero(r > math.pi / 4), [len(r)]))
    lo = far[np.searchsorted(far, k_min) - 1] + 1
    hi = far[np.searchsorted(far, k_min, side="right")] - 1
    return zseg[lo : k_min + 1], zseg[k_min : hi + 1]


def _proper_crossings(pts: np.ndarray, pairs_i: np.ndarray, pairs_j: np.ndarray) -> int:
    """Count transversal interior intersections among the listed segment pairs."""
    a = pts[pairs_i]
    b = pts[pairs_i + 1]
    c = pts[pairs_j]
    d = pts[pairs_j + 1]

    def orient(p, q, r):
        return (q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0])

    d1 = orient(c, d, a)
    d2 = orient(c, d, b)
    d3 = orient(a, b, c)
    d4 = orient(a, b, d)
    return int(np.count_nonzero((d1 * d2 < 0) & (d3 * d4 < 0)))


def self_intersections(traj: Trajectory) -> int:
    """Number of transversal self-crossings of the trajectory polyline.

    The count is meaningful for open, tunneling orbits only.  A closed orbit
    traced many times crosses its own earlier copies at rounding level: the
    closed figure run (t = 40, about 73 loops) counts 1,166,030 of them.
    Only pairs whose bounding boxes share a cell of a uniform grid (cell = the
    mean segment length) are tested, as they are found, so memory stays linear
    in the grid entries.  Any cell gives the same count: two crossing segments
    both hold the crossing point, so their boxes share its cell.  Adjacent
    segments, endpoint touches and collinear overlaps do not count.
    """
    if len(traj) < 4:
        raise DomainError(f"need >= 4 samples, got {len(traj)}")
    pts = np.column_stack([traj.z.real, traj.z.imag])
    seg_len = np.hypot(*(pts[1:] - pts[:-1]).T)
    cell = max(float(seg_len.mean()), 1e-12)

    # int64: at the 1e-12 floor a cell coordinate passes the int32 range
    lo = np.floor(np.minimum(pts[:-1], pts[1:]) / cell).astype(np.int64)
    hi = np.floor(np.maximum(pts[:-1], pts[1:]) / cell).astype(np.int64)
    nx, ny = (hi - lo + 1).T
    # one entry per (segment, cell of its bounding box), in segment order
    seg = np.repeat(np.arange(len(seg_len), dtype=np.int32), nx * ny)
    cy, cx = np.divmod(np.arange(len(seg)) - np.repeat(np.cumsum(nx * ny) - nx * ny, nx * ny), nx[seg])
    cx, cy = cx + lo[seg, 0], cy + lo[seg, 1]
    order = np.argsort((cx - lo[:, 0].min()) * (hi[:, 1].max() - lo[:, 1].min() + 1) + cy, kind="stable")
    seg, cx, cy = seg[order], cx[order], cy[order]
    del order
    # entries d apart in a run of one cell are the pairs (i, j), i < j, of that
    # cell; each pair is taken once, in the lowest cell the two boxes share
    count = 0
    at, d = np.arange(len(seg)), 1
    while len(at):
        at = at[at + d < len(seg)]
        at = at[(cx[at + d] == cx[at]) & (cy[at + d] == cy[at])]
        i, j = seg[at], seg[at + d]
        keep = (cx[at] == np.maximum(lo[i, 0], lo[j, 0])) & (cy[at] == np.maximum(lo[i, 1], lo[j, 1])) & (j - i > 1)
        count += _proper_crossings(pts, i[keep], j[keep])
        d += 1
    return count
